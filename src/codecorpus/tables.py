"""The one reader and writer of every workspace CSV table, and the writer
of the workspace's other files.

A table is a header row plus data rows in the default `csv` dialect,
written byte for byte as `csv.writer` writes it and read back with
`csv.reader`: fields are joined by `,` and rows end in `\\r\\n`; `None`
is an empty field and any other non-string is written with `str()`; a
field holding `,`, `"`, `\\r` or `\\n` is quoted, each `"` in it doubled,
and a row of one empty field is written as `""`. `write_table` and
`write_text` replace the file in one step, so a failure part-way leaves the
previous file (or none), never a torn one. `read_table` accepts exactly the
header it is told to expect, rows of the same width, each key value once and
rows its `check` passes; the first fault is an `InputError` at `file:line`.
"""

import csv
import os
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

from .errors import InputError, MissingArtifactError

# Payloads (the TEXT or TKNA of a long method) can exceed the csv module's
# default 128 KiB field limit; whatever the writer wrote must read back.
csv.field_size_limit(2 ** 31 - 1)


@contextmanager
def _replacing(path):
    """A text file to write that replaces `path` only once it is complete.

    It is a temporary file beside `path`; on any exception it is removed
    and `path` is left as it was. Line ends are written as given.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _field(value) -> str:
    text = "" if value is None else value if value.__class__ is str \
        else str(value)
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _line(row) -> str:
    line = ",".join(map(_field, row))
    return line + "\r\n" if line or len(row) != 1 else '""\r\n'


def write_table(path, header: list[str], rows) -> None:
    """Write `header` and then `rows`, in the given order, to `path`,
    replacing it whole or not at all. Rows are written one at a time, so
    a large table is never held as one string."""
    with _replacing(path) as fh:
        fh.write(_line(header))
        fh.writelines(map(_line, rows))


def write_text(path, text: str) -> None:
    """Write `text` to `path` (UTF-8), replacing it whole or not at all."""
    with _replacing(path) as fh:
        fh.write(text)


def read_table(path, header: list[str], int_columns: tuple[str, ...] = (),
               key: tuple[str, ...] = (), check=None) -> list[list]:
    """Data rows of the table at `path`, blank lines skipped.

    The first row must equal `header` and every other row must have as
    many fields. Values of `int_columns` come back as ints. No two rows may
    share their `key` values, compared after that conversion. `check(row)`
    says what is wrong with a converted row, or returns None.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingArtifactError(path)
    ints = [header.index(name) for name in int_columns]
    key_of = itemgetter(*map(header.index, key)) if key else None
    seen = {}
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                found = "an empty file" if got is None else ",".join(got)
                raise InputError(f"{path}:1: expected header "
                                 f"{','.join(header)}, got {found}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(
                        f"{path}:{reader.line_num}: expected {len(header)} "
                        f"fields, got {len(row)}")
                for i in ints:
                    try:
                        row[i] = int(row[i])
                    except ValueError:
                        raise InputError(
                            f"{path}:{reader.line_num}: {header[i]} "
                            f"{row[i]!r} is not an integer") from None
                if key_of is not None:
                    value = key_of(row)
                    first = seen.setdefault(value, reader.line_num)
                    if first != reader.line_num:
                        named = ", ".join(map("{}={}".format, key, value
                                              if len(key) > 1 else [value]))
                        raise InputError(f"{path}:{reader.line_num}: repeated "
                                         f"key {named} (first on line {first})")
                problem = check and check(row)
                if problem:
                    raise InputError(f"{path}:{reader.line_num}: {problem}")
                rows.append(row)
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8: {exc}") from None
    return rows
