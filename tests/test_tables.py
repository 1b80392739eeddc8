"""The shared table layer: atomic replacement, one error per bad table,
and the bytes of `csv.writer`.

Every reader of a workspace CSV must reject a foreign header, a row of the
wrong width, a non-integer value where a column holds integers and a
repeat of its table's key with an `InputError` that names the file and
line. `write_table` formats rows
itself and must write exactly what `write_table_oracle` (`csv.writer`)
writes, for generated rows, every code point and every table the stages
write for the fixture, x4 and long-method corpora.
"""

import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from codecorpus import callgraph, catalog, pipeline, tables
from codecorpus.callgraph import CALLGRAPH_HEADER, read_callgraph_csv
from codecorpus.catalog import (
    METADATA_TABLES, MethodMeta, read_metadata, read_property_csv,
)
from codecorpus.errors import InputError
from codecorpus.pipeline import REPR_HEADER, read_repr_csv
from codecorpus.tables import read_table, write_table, write_text
from codecorpus.taskgen import TASK_HEADER, read_task_csv
from codecorpus.tokenstats import SIZES_HEADER, read_sizes_csv

from oracles import write_table_oracle


def _read_methods(path):
    for name, row, _key, _ints in METADATA_TABLES[:3]:
        write_table(path.parent / f"{name}.csv", list(row._fields), [])
    return read_metadata(path.parent)


# (file name, header, reader, integer columns)
READERS = [
    ("NMTK.csv", ["method_id", "value"], read_property_csv, ()),
    ("methods.csv", list(MethodMeta._fields), _read_methods,
     ("start_line", "end_line")),
    ("TKNA.csv", REPR_HEADER, read_repr_csv, ()),
    ("callgraph.csv", CALLGRAPH_HEADER, read_callgraph_csv, ("line", "col")),
    ("task.csv", TASK_HEADER, read_task_csv, ()),
    ("sizes.csv", SIZES_HEADER, read_sizes_csv, ("subtoken_count",)),
]
IDS = [name for name, *_ in READERS]
KEYS = {"NMTK.csv": ["method_id"], "methods.csv": ["method_id"],
        "TKNA.csv": ["method_id"],
        "callgraph.csv": ["caller_method_id", "line", "col"],
        "task.csv": ["sample_id"],
        "sizes.csv": ["entity_id", "granularity", "tokenizer_tag"]}
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


@pytest.mark.parametrize("name, header, read, _ints", READERS, ids=IDS)
def test_readers_reject_a_repeated_key(tmp_path, name, header, read, _ints):
    path = tmp_path / name
    _write(path, [",".join(header), ",".join(_row(header)), "",
                  ",".join(_row(header))])
    key = ", ".join(f"{column}=7" for column in KEYS[name])
    with pytest.raises(InputError, match=re.escape(
            f"{name}:4: repeated key {key} (first on line 2)")):
        read(path)


_KEYED = st.lists(st.tuples(st.integers(0, 3), st.sampled_from("ab"),
                            st.text(st.characters(codec="utf-8",
                                                  exclude_characters="\r\n"),
                                    max_size=4)),
                  max_size=8)


@settings(max_examples=200, deadline=None)
@given(_KEYED)
@example([(1, "a", ""), (2, "a", ""), (1, "a", "x,y")])
def test_a_repeated_key_is_rejected_at_its_line(rows):
    # no field holds a line end, so row i is on line i + 2
    first: dict = {}
    repeat = next((i for i, (n, s, _v) in enumerate(rows)
                   if first.setdefault((n, s), i) != i), None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, ["n", "s", "v"], rows)
        if repeat is None:
            assert read_table(path, ["n", "s", "v"], ("n",), ("n", "s")) \
                == [list(row) for row in rows]
            return
        n, s, _v = rows[repeat]
        with pytest.raises(InputError, match=re.escape(
                f"t.csv:{repeat + 2}: repeated key n={n}, s={s} "
                f"(first on line {first[n, s] + 2})")):
            read_table(path, ["n", "s", "v"], ("n",), ("n", "s"))


def test_a_key_is_compared_after_the_int_conversion(tmp_path):
    path = tmp_path / "t.csv"
    _write(path, ["n,v", "7,a", "8,b", "007,c"])
    with pytest.raises(InputError, match=re.escape(
            "t.csv:4: repeated key n=7 (first on line 2)")):
        read_table(path, ["n", "v"], ("n",), ("n",))
    assert read_table(path, ["n", "v"]) == [["7", "a"], ["8", "b"],
                                            ["007", "c"]]


def _rows_then_fail():
    yield ("2", "z")
    raise RuntimeError("disk on fire")


# (a complete write, an interrupted one, the error it raises)
WRITES = [
    (lambda path: write_table(path, ["a", "b"], [("1", "x,y")]),
     lambda path: write_table(path, ["a", "b"], _rows_then_fail()),
     RuntimeError),
    (lambda path: write_text(path, '{"seed": 1}\n'),
     lambda path: write_text(path, "x\n" * 1000 + "\ud800"),
     UnicodeEncodeError),
]


@pytest.mark.parametrize("good, bad, error", WRITES, ids=["table", "text"])
def test_an_interrupted_write_leaves_the_old_file(tmp_path, good, bad, error):
    path = tmp_path / "out"
    good(path)
    before = path.read_bytes()
    with pytest.raises(error):
        bad(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_writers_keep_the_bytes_they_are_given(tmp_path):
    write_table(tmp_path / "t.csv", ["a", "b"], [("1", "x,y")])
    write_text(tmp_path / "t.txt", "one\ntwo\n")
    assert (tmp_path / "t.csv").read_bytes() == b'a,b\r\n1,"x,y"\r\n'
    assert (tmp_path / "t.txt").read_bytes() == b"one\ntwo\n"


# ---------------------------------------------------------------------------
# The bytes of csv.writer
# ---------------------------------------------------------------------------

def _oracle_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    write_table_oracle(buf, header, rows)
    return buf.getvalue().encode("utf-8")


_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n'),
                          st.characters(codec="utf-8"),
                          st.characters(min_codepoint=0x10000,
                                        codec="utf-8")),
                max_size=8)
_FIELD = st.one_of(_TEXT, st.integers(), st.floats(), st.booleans(),
                   st.none())


@settings(max_examples=400, deadline=None)
@given(st.lists(_TEXT, max_size=4),
       st.lists(st.lists(_FIELD, max_size=5), max_size=6))
@example(["a"], [[""], [None], [], ["", ""], ['"'], ["\r"], ["x\ny"],
                 ["\U0001f600,"], [1.5, True, -3]])
def test_rows_are_written_as_csv_writer_writes_them(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, header, rows)
        assert path.read_bytes() == _oracle_bytes(header, rows)


def test_every_code_point_is_quoted_as_csv_writer_quotes_it(tmp_path):
    chars = [chr(c) for c in range(0x110000) if not 0xD800 <= c < 0xE000]
    rows = [(c, f"a{c}") for c in chars]
    write_table(tmp_path / "t.csv", ["alone", "after"], rows)
    assert (tmp_path / "t.csv").read_bytes() == \
        _oracle_bytes(["alone", "after"], rows)


@pytest.mark.parametrize("corpus", ["corpus_data", "scaled_corpus_data",
                                    "longgen_corpus_data"])
def test_stage_tables_are_written_as_csv_writer_writes_them(
        tmp_path, monkeypatch, request, corpus):
    datas = request.getfixturevalue(corpus)
    checked = []

    def checking(path, header, rows):
        rows = list(rows)
        tables.write_table(path, header, rows)
        assert Path(path).read_bytes() == _oracle_bytes(header, rows), path
        checked.append(Path(path).name)

    for module in (catalog, pipeline, callgraph):
        monkeypatch.setattr(module, "write_table", checking)
    ws = pipeline.Workspace(tmp_path / "ws")
    cat = pipeline.merged_catalog(datas)
    catalog.write_metadata(cat, ws.metadata_dir)
    pipeline.stage_representations(ws, datas,
                                   list(pipeline.REPRESENTATION_TYPES), 0)
    pipeline.stage_metrics(ws, datas, cat)
    pipeline.stage_callgraph(ws, datas, cat)
    assert sorted(checked) == sorted(p.name for p in ws.root.rglob("*.csv"))
    assert {"methods.csv", "C2SQ.csv", "FTGR.csv", "TEXT.csv", "NAME.csv",
            "callgraph.csv"} <= set(checked)
